//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints an info line (workload, seed, sample counts, host fingerprint)
//! and, as the last line of standard output, the JSON result. Exits 1 when
//! any run failed its output checks, 2 on bad arguments.

use fedmigr_perfbench::workload::Workload;
use fedmigr_perfbench::{e2e, host, layers};
use fedmigr_telemetry::trace::json_str;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in argv.chunks(2) {
        let [flag, value] = pair else { usage("every flag needs a value") };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .unwrap_or_else(|| usage(&format!("unknown workload {value:?}"))),
                )
            }
            "--seed" => seed = value.parse().ok(),
            "--seconds" => seconds = value.parse().ok().filter(|s: &f64| s.is_finite() && *s > 0.0),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => Some(false),
                    "1" => Some(true),
                    _ => usage("--trace takes 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other:?}")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed needs a whole number")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds needs a positive number")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

fn main() {
    let args = parse_args();
    let w = args.workload;
    let (report, detail) = if args.trace {
        layers::measure(w, args.seed, w.epochs(), args.seconds)
    } else {
        let (report, s) = e2e::measure(w, args.seed, w.epochs(), args.seconds);
        let detail = format!(
            "\"runs\": {}, \"setups\": {}, \"csv_fnv\": {}, \"final_accuracy\": {}",
            s.runs,
            s.setups,
            json_str(&s.csv_fnv),
            s.final_accuracy.map_or_else(|| "null".into(), |a| format!("{a:?}"))
        );
        (report, detail)
    };
    println!(
        "{{\"workload\": {}, \"seed\": {}, \"trace\": {}, \"seconds\": {:?}, \"epochs\": {}, {detail}, \
         \"host\": {}}}",
        json_str(w.name()),
        args.seed,
        u8::from(args.trace),
        args.seconds,
        w.epochs(),
        host::fingerprint_json()
    );
    println!("{}", report.to_json());
    if !report.correct() {
        std::process::exit(1);
    }
}
